"""The per-document kernels against the formulations they replaced.

`crf.layers` takes the max over sender slots in blocks sized by
`crf.SENDER_BLOCK_BYTES`; with the budget patched to one slot per block,
to a few, and to all of them in one block, every yielded array equals the
slot-at-a-time oracle (`permention.slot_layers`) bit for bit, padded slots
and a NaN unary included.  `attention.attend` takes its kept words through
one index grid and equals the along-axis oracle bit for bit on 2-D and 3-D
blocks.  `f_inputs` still refuses a non-finite row, and the joint stage
refuses a document over `crf.JOINT_BYTES` before phi is allocated.
"""

import numpy as np
import pytest
from permention import along_axis_attend, slot_layers

from entlink import crf
from entlink.attention import attend, f_inputs, scored_pairs
from entlink.crf import (CrfInstance, GlobalParams, check_joint_budget, joint_bytes,
                         layers, phi_tensor, predict_global)
from entlink.docs import Document, Mention
from entlink.errors import ValidationError
from entlink.priors import Candidate
from entlink.training import TrainConfig, train_global
from entlink.vectors import EmbeddingStore


def _instance(rng, sizes, dim=8, nan_at=None):
    """Random unit candidate rows for mentions of `sizes` candidates,
    padded to the largest; a NaN unary at (mention, slot) `nan_at`."""
    unaries = [rng.normal(size=s) for s in sizes]
    if nan_at is not None:
        unaries[nan_at[0]][nan_at[1]] = np.nan
    vecs = []
    for s in sizes:
        v = rng.normal(size=(s, dim))
        vecs.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    return CrfInstance(unaries=unaries, cand_vecs=vecs,
                       entities=[list(range(s)) for s in sizes],
                       log_priors=[np.zeros(s) for s in sizes],
                       c=1.0 + 0.5 * rng.normal(size=dim))


def _arrays(instance):
    return (np.ascontiguousarray(instance.unaries.T),
            phi_tensor(instance.cand_vecs, instance.valid, instance.c),
            np.ascontiguousarray(instance.valid.T))


def _budgets(phi):
    """Budgets giving one sender slot per block, two, three, and all of
    them in one block: a block of w slots and the running max fit (w + 1)
    slots' bytes."""
    slot = phi[0].nbytes
    return [1, 2 * slot, 3 * slot, 4 * slot, (phi.shape[0] + 1) * slot, 1 << 40]


SIZES = [[5, 5, 5, 5], [1, 6, 3, 6, 2], [7, 1, 4], [3], [2, 2], [6, 6, 6, 6, 6, 6, 6, 6]]


@pytest.mark.parametrize("sizes", SIZES)
def test_block_max_equals_slot_at_a_time_bit_for_bit(sizes, monkeypatch):
    rng = np.random.default_rng(len(sizes) * 10 + max(sizes))
    psi, phi, valid = _arrays(_instance(rng, sizes))
    want = list(slot_layers(psi, phi, valid, 5, 0.6))
    for budget in _budgets(phi):
        monkeypatch.setattr(crf, "SENDER_BLOCK_BYTES", budget)
        got = list(layers(psi, phi, valid, 5, 0.6))
        assert len(got) == len(want)
        for layer_got, layer_want in zip(got, want):
            for g, w in zip(layer_got, layer_want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_yielded_arrays_are_new_in_every_layer(monkeypatch):
    psi, phi, valid = _arrays(_instance(np.random.default_rng(3), [4, 4, 2, 4]))
    for budget in _budgets(phi):
        monkeypatch.setattr(crf, "SENDER_BLOCK_BYTES", budget)
        seen = [a for layer in layers(psi, phi, valid, 4, 0.5) for a in layer]
        for k, a in enumerate(seen):
            assert not any(np.shares_memory(a, b) for b in seen[k + 1:])


def test_nan_unary_gives_nan_messages_and_the_same_error(monkeypatch):
    instance = _instance(np.random.default_rng(11), [3, 5, 4, 5], nan_at=(1, 2))
    psi, phi, valid = _arrays(instance)
    want = list(slot_layers(psi, phi, valid, 3, 0.5))
    assert np.isnan(want[0][0]).any()
    params = GlobalParams.init(8, hidden=4, t=3)
    params.c = instance.c
    for budget in _budgets(phi):
        monkeypatch.setattr(crf, "SENDER_BLOCK_BYTES", budget)
        got = list(layers(psi, phi, valid, 3, 0.5))
        for (mix, _, _), (mix_want, _, _) in zip(got, want):
            assert mix.tobytes() == mix_want.tobytes()
        with pytest.raises(ValidationError, match="^message 1->0 at layer 1 sums to "):
            crf.instance_marginals(instance, params)


def _blocks(rng, lead, s, k):
    """Random (..., S, K) a- and b-blocks; words 1 and 2 tie in support."""
    a = rng.normal(size=(*lead, s, k))
    if k > 2:
        a[..., 2] = a[..., 1]
    return a, rng.normal(size=a.shape)


@pytest.mark.parametrize("lead", [(), (1,), (6,), (3, 2)])
@pytest.mark.parametrize("s, k, r", [(4, 40, 10), (7, 25, 25), (3, 5, 9), (1, 1, 1), (5, 12, 1)])
def test_index_grid_attend_equals_along_axis_bit_for_bit(lead, s, k, r):
    rng = np.random.default_rng(s * 100 + k + r + len(lead))
    a, b = _blocks(rng, lead, s, k)
    live = rng.random(a.shape) < 0.8
    live[..., 0, :] = True
    for mask in (None, live):
        got = attend(a, b, r, mask)
        want = along_axis_attend(a, b, r, mask)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_index_grid_attend_on_empty_contexts_and_padding():
    # mentions of 4, 2 and 1 candidates over 6, 0 and 3 context words,
    # zero-padded as the scorer pads them: the empty context keeps word 0
    rng = np.random.default_rng(5)
    valid = np.arange(4) < np.array([4, 2, 1])[:, None]
    words = np.arange(6) < np.array([6, 0, 3])[:, None]
    a, b = (np.where(valid[:, :, None] & words[:, None], rng.normal(size=(3, 4, 6)), 0.0)
            for _ in range(2))
    pairs = scored_pairs(valid, words)
    for r in (2, 6, 10):
        got = attend(a, b, r, pairs)
        want = along_axis_attend(a, b, r, pairs)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert (got[0][1] == 0.0).all() and got[1][1, 0] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1])
def test_f_inputs_refuses_a_non_finite_input(bad, column):
    scores, priors = np.array([0.5, -1.0, 2.0]), np.log([0.2, 0.3, 0.5])
    x = f_inputs(scores, priors)
    assert x.tobytes() == np.column_stack([scores, priors]).tobytes()
    (scores if column == 0 else priors)[1] = bad
    with pytest.raises(ValidationError, match="non-finite input to the combination network"):
        f_inputs(scores, priors)


def test_joint_bytes_of_paper_scale_documents_sit_far_below_the_budget():
    # phi takes 8 S^2 n^2 bytes, 1.41 MB at n=60, S=7; a layer's messages
    # take 8 S n^2
    pairs, messages = 8 * 49 * 3600, 8 * 7 * 3600
    assert joint_bytes(60, 7, 10, training=False) == 2 * pairs + 6 * messages
    assert joint_bytes(60, 7, 10, training=True) == 4 * pairs + 44 * messages
    assert 50 * joint_bytes(60, 7, 10, training=True) < crf.JOINT_BYTES
    check_joint_budget("d", 60, 7, 10, training=True)
    with pytest.raises(ValidationError) as over:
        check_joint_budget("long", 2000, 7, 10, training=False)
    need = joint_bytes(2000, 7, 10, training=False)
    assert str(over.value) == (f"doc 'long': joint stage needs {need} bytes for n=2000 "
                               f"mentions and S=7 candidate slots, over the budget of "
                               f"{crf.JOINT_BYTES}")


def _store_and_doc(dim=6):
    rng = np.random.default_rng(2)
    store = EmbeddingStore(dim)
    store.add_words([f"w{i}" for i in range(5)], rng.normal(size=(5, dim)))
    rows = rng.normal(size=(6, dim))
    store.add_entities([f"E{i}" for i in range(6)],
                       rows / np.linalg.norm(rows, axis=1, keepdims=True))
    mentions = [Mention(start=i, end=i + 1, surface=f"m{i}", gold_id=i,
                        candidates=[Candidate(e, 0.5, "prior-top") for e in (i, i + 1)],
                        context=[0, 1, 2]) for i in range(4)]
    return store, Document(doc_id="big", tokens=["t"] * 4, mentions=mentions)


def test_over_budget_document_is_refused_before_phi_is_allocated(monkeypatch):
    store, doc = _store_and_doc()
    params = GlobalParams.init(6, hidden=4, k=3, r=2, t=2)
    monkeypatch.setattr(crf, "JOINT_BYTES", joint_bytes(4, 2, 2, training=False))
    assert predict_global(doc, params, store)[0] is not None

    def allocated(*args):
        raise AssertionError("phi_tensor called over the budget")

    monkeypatch.setattr(crf, "phi_tensor", allocated)
    monkeypatch.setattr(crf, "JOINT_BYTES", joint_bytes(4, 2, 2, training=False) - 1)
    with pytest.raises(ValidationError, match=r"^doc 'big': joint stage needs \d+ bytes "
                                              r"for n=4 mentions and S=2"):
        predict_global(doc, params, store)
    with pytest.raises(ValidationError, match="^doc 'big': joint stage needs"):
        train_global(params, [doc], None, store, TrainConfig(epochs=1))
