import numpy as np
import pytest

from latentsketch import sequence as sq
from latentsketch import vocab
from latentsketch.util import seeded_rng

D = 4


def lat():
    return sq.MixedItem.latent(np.ones(D))


def txt(i=10):
    return sq.MixedItem.text(i)


def ctrl(name):
    return sq.MixedItem.ctrl(name)


def block(k):
    return [ctrl(sq.START)] + [lat() for _ in range(k)] + [ctrl(sq.END)]


def test_minimal_valid_sequences():
    sq.validate(sq.MixedSequence([ctrl(sq.BOS)]), k=2)
    sq.validate(sq.MixedSequence([ctrl(sq.BOS), txt(), ctrl(sq.EOS)]), k=2)
    sq.validate(sq.MixedSequence([ctrl(sq.BOS), txt()] + block(2) + [txt(), ctrl(sq.EOS)]), k=2)
    # a leading latent run after BOS is the input-image context
    sq.validate(sq.MixedSequence([ctrl(sq.BOS), lat()]), k=2)
    sq.validate(sq.MixedSequence([ctrl(sq.BOS), lat(), lat(), txt()] + block(2) + [ctrl(sq.EOS)]), k=2)


@pytest.mark.parametrize("items", [
    [],
    [txt()],
    [ctrl(sq.EOS)],
    [ctrl(sq.BOS), lat()] + block(2) + [lat()],                # context run only right after BOS
    [ctrl(sq.BOS), txt(), lat()],                              # latent after text, no START
    [ctrl(sq.BOS), ctrl(sq.START), lat(), ctrl(sq.END)],       # block of 1, k=2
    [ctrl(sq.BOS), ctrl(sq.START), lat(), lat(), lat(), ctrl(sq.END)],  # block of 3, k=2
    [ctrl(sq.BOS), ctrl(sq.START), lat(), lat(), txt()],       # missing END
    [ctrl(sq.BOS), ctrl(sq.EOS), txt()],                       # EOS not last
    [ctrl(sq.BOS), ctrl(sq.PAD)],                              # PAD never valid
    [ctrl(sq.BOS), ctrl(sq.BOS)],                              # duplicate BOS
    [ctrl(sq.BOS), ctrl(sq.END)],                              # stray END
])
def test_invalid_sequences_rejected(items):
    with pytest.raises(sq.GrammarError):
        sq.validate(sq.MixedSequence(items), k=2)


def random_valid_sequence(rng, k):
    """Sample from BOS . Latent* . (text* START Latent^k END)* . text* . EOS?"""
    items = [ctrl(sq.BOS)] + [lat() for _ in range(rng.integers(0, 3))]
    for _ in range(rng.integers(0, 4)):
        for _ in range(rng.integers(0, 3)):
            items.append(txt(int(rng.integers(5, vocab.VOCAB_SIZE))))
        items.extend(block(k))
    for _ in range(rng.integers(0, 3)):
        items.append(txt(int(rng.integers(5, vocab.VOCAB_SIZE))))
    if rng.random() < 0.5:
        items.append(ctrl(sq.EOS))
    return sq.MixedSequence(items)


@pytest.mark.parametrize("seed", range(20))
def test_grammar_accepts_exactly_the_language(seed):
    rng = seeded_rng(seed, "grammar")
    k = int(rng.integers(1, 4))
    seq = random_valid_sequence(rng, k)
    sq.validate(seq, k)
    # any single corruption leaves the language
    items = list(seq.items)
    mutation = rng.integers(0, 3)
    if mutation == 0:
        # past the context run a latent is out of place outside a block, and
        # makes K + 1 rows inside one
        n_ctx = 0
        while 1 + n_ctx < len(items) and items[1 + n_ctx].kind == sq.LATENT:
            n_ctx += 1
        if len(items) == 1 + n_ctx:
            items.append(ctrl(sq.EOS))
        items.insert(int(rng.integers(n_ctx + 2, len(items) + 1)), lat())
        with pytest.raises(sq.GrammarError):
            sq.validate(sq.MixedSequence(items), k)
    elif mutation == 1:
        items.insert(int(rng.integers(1, len(items) + 1)), ctrl(sq.PAD))
        with pytest.raises(sq.GrammarError):
            sq.validate(sq.MixedSequence(items), k)
    else:
        items[0] = txt()
        with pytest.raises(sq.GrammarError):
            sq.validate(sq.MixedSequence(items), k)


def test_text_item_rejects_control_ids():
    with pytest.raises(sq.GrammarError):
        sq.MixedItem.text(vocab.PAD_ID)
    with pytest.raises(sq.GrammarError):
        sq.MixedItem.text(vocab.VOCAB_SIZE)


def test_latent_rejects_non_finite():
    with pytest.raises(sq.GrammarError):
        sq.MixedItem.latent(np.array([np.inf, 0.0]))


def test_to_arrays_routing():
    seq = sq.MixedSequence([ctrl(sq.BOS), lat(), txt(12)])
    ids, mask, lats = sq.to_arrays(seq, D)
    assert ids.tolist() == [vocab.BOS_ID, 0, 12]
    assert mask.tolist() == [1.0, 0.0, 1.0]
    assert np.array_equal(lats[1], np.ones(D))
    assert np.array_equal(lats[0], np.zeros(D))


def test_detokenize_pads_latents():
    seq = sq.MixedSequence([ctrl(sq.BOS), txt(vocab.STR2ID["rotate"])] + block(2))
    text = seq.detokenize()
    assert "⟨pad⟩ ⟨pad⟩" in text
    assert "rotate" in text
    assert text.startswith("⟨bos⟩")
