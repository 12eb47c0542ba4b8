"""Mixed text/latent/control sequences and their grammar validation.

A well-formed sequence is
    BOS . Latent^N_ctx . (text* . START . Latent^K . END)* . text* . EOS?
where the optional leading latent run is the raw input-image context and every
bracketed latent block has exactly K rows.  EOS, when present, is last.
"""

from __future__ import annotations

import numpy as np

from . import vocab

TEXT = "text"
LATENT = "latent"
CTRL = "ctrl"

BOS, EOS, START, END, PAD = "BOS", "EOS", "START", "END", "PAD"

_CTRL_TO_ID = {
    BOS: vocab.BOS_ID,
    EOS: vocab.EOS_ID,
    START: vocab.START_ID,
    END: vocab.END_ID,
    PAD: vocab.PAD_ID,
}
_ID_TO_CTRL = {v: k for k, v in _CTRL_TO_ID.items()}


class GrammarError(ValueError):
    pass


class MixedItem:
    """One sequence element: a text token id, a latent vector, or a control marker."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value):
        self.kind = kind
        self.value = value

    @staticmethod
    def text(token_id: int) -> "MixedItem":
        if token_id in _ID_TO_CTRL:
            raise GrammarError(f"token id {token_id} is a control token, not text")
        if not 0 <= token_id < vocab.VOCAB_SIZE:
            raise GrammarError(f"token id {token_id} outside vocabulary")
        return MixedItem(TEXT, int(token_id))

    @staticmethod
    def latent(vec: np.ndarray) -> "MixedItem":
        vec = np.asarray(vec, dtype=np.float64)
        if not np.isfinite(np.sum(vec)):
            raise GrammarError("latent vector contains non-finite values")
        return MixedItem(LATENT, vec)

    @staticmethod
    def ctrl(marker: str) -> "MixedItem":
        if marker not in _CTRL_TO_ID:
            raise GrammarError(f"unknown control marker {marker!r}")
        return MixedItem(CTRL, marker)

    def token_id(self) -> int:
        """Vocabulary id for embedding lookup (latent items have none)."""
        if self.kind == TEXT:
            return self.value
        if self.kind == CTRL:
            return _CTRL_TO_ID[self.value]
        raise ValueError("latent items have no token id")

    def __repr__(self):
        if self.kind == LATENT:
            return "Latent"
        if self.kind == CTRL:
            return f"<{self.value.lower()}>"
        return vocab.TOKENS[self.value]


class MixedSequence:
    __slots__ = ("items",)

    def __init__(self, items: list[MixedItem] | None = None):
        self.items = list(items) if items else []

    def __len__(self):
        return len(self.items)

    def append(self, item: MixedItem) -> None:
        self.items.append(item)

    def copy(self) -> "MixedSequence":
        return MixedSequence(self.items)

    def detokenize(self) -> str:
        """Display form; each latent renders as a pad glyph."""
        parts = []
        for it in self.items:
            if it.kind == LATENT:
                parts.append("⟨pad⟩")
            elif it.kind == CTRL:
                parts.append(f"⟨{it.value.lower()}⟩")
            else:
                parts.append(vocab.TOKENS[it.value])
        return " ".join(parts)


def validate(seq: MixedSequence, k: int) -> None:
    """Raise GrammarError unless the sequence is in the language of the module
    docstring."""
    items = seq.items
    if not items or items[0].kind != CTRL or items[0].value != BOS:
        raise GrammarError("sequence must begin with BOS")
    i = 1
    n = len(items)
    while i < n and items[i].kind == LATENT:
        i += 1
    while i < n:
        it = items[i]
        if it.kind == TEXT:
            i += 1
        elif it.kind == CTRL and it.value == START:
            block = items[i + 1 : i + 1 + k]
            if len(block) != k or any(b.kind != LATENT for b in block):
                raise GrammarError(f"START must be followed by exactly {k} latent items")
            after = i + 1 + k
            if after >= n or items[after].kind != CTRL or items[after].value != END:
                raise GrammarError("latent block must close with END")
            i = after + 1
        elif it.kind == CTRL and it.value == EOS:
            if i != n - 1:
                raise GrammarError("EOS must be the final item")
            i += 1
        elif it.kind == LATENT:
            raise GrammarError("latent item outside a START..END block")
        else:
            raise GrammarError(f"unexpected control item {it.value} at position {i}")


def to_arrays(seq: MixedSequence, d: int):
    """Flatten to (ids [L], text_mask [L], latents [L, d]) for the backbone.

    Latent positions carry id 0 in `ids`; the mask routes them to their raw
    vectors instead of the embedding table.
    """
    L = len(seq.items)
    ids = np.zeros(L, dtype=np.int64)
    text_mask = np.zeros(L, dtype=np.float64)
    latents = np.zeros((L, d), dtype=np.float64)
    for i, it in enumerate(seq.items):
        if it.kind == LATENT:
            latents[i] = it.value
        else:
            ids[i] = it.token_id()
            text_mask[i] = 1.0
    return ids, text_mask, latents
