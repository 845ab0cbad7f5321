"""A word-level tokenizer with a trainable vocabulary.

Real LLM stacks use subword tokenizers; for the simulator a regex word
tokenizer is sufficient — token *counts* drive the usage accounting and the
vocabulary drives the n-gram model and hash embeddings.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Dict, Iterable, List, Optional

_WORD_CHAR = r"[A-Za-z0-9_'-]"
_TOKEN_RE = re.compile(_WORD_CHAR + r"+|[^\sA-Za-z0-9_]")

#: Byte -> token class for ASCII text: ``w`` for a word character, a
#: space for what ``\s`` matches, ``p`` for any other character (each is
#: a token of its own). Bytes above 0x7f never occur in ASCII text.
_BYTE_CLASSES = bytes(
    ord("w") if re.fullmatch(_WORD_CHAR, chr(byte))
    else ord(" ") if re.fullmatch(r"\s", chr(byte))
    else ord("p")
    for byte in range(128)) + b"p" * 128

#: Special tokens every vocabulary reserves.
PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<bos>", "<eos>"


def word_tokens(text: str, lowercase: bool = True) -> List[str]:
    """Split text into word and punctuation tokens."""
    tokens = _TOKEN_RE.findall(text)
    if lowercase:
        tokens = [t.lower() for t in tokens]
    return tokens


def count_tokens(text: str) -> int:
    """The number of tokens in ``text`` (the unit of usage accounting).

    Equals ``len(word_tokens(text))``. ASCII text is counted in one bytes
    pass: every punctuation byte is a token, and every word run is one
    token counted at its first byte.
    """
    if not text.isascii():
        return len(_TOKEN_RE.findall(text))
    classes = text.encode("ascii").translate(_BYTE_CLASSES)
    return (classes.count(b"p") + classes.count(b" w") + classes.count(b"pw")
            + classes.startswith(b"w"))


class WordTokenizer:
    """Tokenizer + integer vocabulary.

    ``fit`` builds the vocabulary from a corpus (keeping the ``max_vocab``
    most frequent types); unseen tokens encode to the ``<unk>`` id.
    """

    def __init__(self, lowercase: bool = True, max_vocab: Optional[int] = None):
        self.lowercase = lowercase
        self.max_vocab = max_vocab
        self.token_to_id: Dict[str, int] = {}
        self.id_to_token: List[str] = []
        for special in (PAD, UNK, BOS, EOS):
            self._add(special)

    def _add(self, token: str) -> int:
        if token not in self.token_to_id:
            self.token_to_id[token] = len(self.id_to_token)
            self.id_to_token.append(token)
        return self.token_to_id[token]

    def fit(self, corpus: Iterable[str]) -> "WordTokenizer":
        """Build the vocabulary from an iterable of documents."""
        counts: Counter = Counter()
        for document in corpus:
            counts.update(word_tokens(document, self.lowercase))
        budget = None if self.max_vocab is None else max(0, self.max_vocab - len(self.id_to_token))
        for token, _ in counts.most_common(budget):
            self._add(token)
        return self

    @property
    def vocab_size(self) -> int:
        """Number of known token types (including specials)."""
        return len(self.id_to_token)

    def tokenize(self, text: str) -> List[str]:
        """Text → token strings."""
        return word_tokens(text, self.lowercase)

    def encode(self, text: str, add_bos_eos: bool = False) -> List[int]:
        """Text → token ids (``<unk>`` for out-of-vocabulary types)."""
        unk = self.token_to_id[UNK]
        ids = [self.token_to_id.get(t, unk) for t in self.tokenize(text)]
        if add_bos_eos:
            return [self.token_to_id[BOS]] + ids + [self.token_to_id[EOS]]
        return ids

    def decode(self, ids: Iterable[int]) -> str:
        """Token ids → space-joined text (specials dropped)."""
        specials = {self.token_to_id[s] for s in (PAD, BOS, EOS)}
        return " ".join(self.id_to_token[i] for i in ids if i not in specials)
