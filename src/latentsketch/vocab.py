"""Fixed word-level vocabulary: control tokens, option letters, digits, template words."""

from __future__ import annotations

import importlib.resources


def _load() -> list[str]:
    text = importlib.resources.files(__package__).joinpath("vocab.txt").read_text("utf-8")
    return [line for line in text.splitlines() if line]


TOKENS: list[str] = _load()
VOCAB_SIZE = len(TOKENS)
STR2ID: dict[str, int] = {s: i for i, s in enumerate(TOKENS)}

BOS_ID = STR2ID["<bos>"]
EOS_ID = STR2ID["<eos>"]
START_ID = STR2ID["<start>"]
END_ID = STR2ID["<end>"]
PAD_ID = STR2ID["<pad>"]
CONTROL_IDS = (BOS_ID, EOS_ID, START_ID, END_ID, PAD_ID)

ANSWER_MARKER_ID = STR2ID["answer:"]
WHITESPACE_IDS = frozenset({STR2ID["␣"]})

# lowercase option letters fold onto their uppercase ids for reward matching
CASEFOLD: dict[int, int] = {STR2ID[lo]: STR2ID[up] for lo, up in zip("abcd", "ABCD")}


def encode(words: list[str]) -> list[int]:
    try:
        return [STR2ID[w] for w in words]
    except KeyError as e:
        raise KeyError(f"word not in vocabulary: {e.args[0]!r}") from None


def decode(ids: list[int]) -> list[str]:
    return [TOKENS[i] for i in ids]
