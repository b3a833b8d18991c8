"""Document data model, vocabulary and sliding-window construction.

A window over K consecutive sentences of a document concatenates them
with <S> separators and a trailing <E>, on both source and target side.
The last (current) sentence is the one whose translation is kept at
inference time; every token carries the 0-based index of the sentence it
belongs to, each <S> counting towards the sentence it terminates and
<E> towards the current sentence.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .checkpoint import write_atomic

PAD, UNK, SEP, EOS = "<PAD>", "<UNK>", "<S>", "<E>"
RESERVED = (PAD, UNK, SEP, EOS)
_RESERVED_SET = frozenset(RESERVED)
PAD_ID, UNK_ID, SEP_ID, EOS_ID = 0, 1, 2, 3


class CorpusError(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization; pre-tokenized text passes through unchanged.

    Tokens are interned, so a corpus holds one string per token type.
    """
    return list(map(sys.intern, text.split()))


def _reject_reserved(owner: str, sentences: Iterable[Sequence[str]]) -> None:
    """Raise ``CorpusError`` naming ``owner`` if a sentence holds a reserved
    token: only the windows made from sentences hold those."""
    for sent in sentences:
        if not _RESERVED_SET.isdisjoint(sent):
            tok = next(tok for tok in sent if tok in RESERVED)
            raise CorpusError(f"{owner} contains reserved token {tok!r}")


@dataclass(frozen=True)
class Document:
    """Ordered parallel sentences of one document."""

    doc_id: str
    sentences: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def __post_init__(self):
        if not self.sentences:
            raise CorpusError(f"document {self.doc_id!r} has no sentences")
        _reject_reserved(f"document {self.doc_id!r}",
                         (side for pair in self.sentences for side in pair))

    @staticmethod
    def from_pairs(doc_id: str, pairs: Iterable[tuple[Sequence[str], Sequence[str]]]) -> "Document":
        return Document(doc_id, tuple((tuple(s), tuple(t)) for s, t in pairs))


class Vocab:
    """Token <-> id bijection with reserved ids 0..3 for <PAD>, <UNK>, <S>, <E>."""

    def __init__(self, tokens: Sequence[str]):
        _reject_reserved("vocab", [tokens])
        self._tokens = list(RESERVED) + list(tokens)
        self._index = {tok: i for i, tok in enumerate(self._tokens)}
        if len(self._index) != len(self._tokens):
            raise CorpusError("duplicate tokens in vocab")

    def __len__(self) -> int:
        return len(self._tokens)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self._index.get(tok, UNK_ID) for tok in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self._tokens[i] for i in ids]

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self._tokens).encode("utf-8")).hexdigest()

    @staticmethod
    def from_sentences(pairs: Iterable[tuple[Sequence[str], Sequence[str]]]) -> "Vocab":
        """Every token of the (source, target) sentence ``pairs``, the most
        frequent first and tokens of equal count in string order."""
        counts: Counter[str] = Counter()
        for src, tgt in pairs:
            counts.update(src)
            counts.update(tgt)
        return Vocab(sorted(counts, key=lambda t: (-counts[t], t)))

    @staticmethod
    def from_documents(docs: Iterable[Document]) -> "Vocab":
        return Vocab.from_sentences(pair for doc in docs for pair in doc.sentences)

    @staticmethod
    def from_corpus_file(path) -> "Vocab":
        """``from_documents(read_corpus(path))``, counted as the file is read."""
        return Vocab.from_sentences(pair for pairs in _checked_pairs(path) for pair in pairs)

    def save(self, path) -> None:
        write_atomic(path, json.dumps(self._tokens[len(RESERVED):],
                                      ensure_ascii=False).encode("utf-8"))

    @staticmethod
    def load(path) -> "Vocab":
        try:
            with open(path, encoding="utf-8") as fh:
                tokens = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorpusError(f"{path}: not a vocabulary file: {exc}") from None
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise CorpusError(f"{path}: not a vocabulary file: expected a JSON list of strings")
        return Vocab(tokens)


@dataclass(frozen=True, slots=True)
class Window:
    """One sliding-window training/inference unit.

    ``size`` is the number of sentences actually included (truncated at
    document start). ``current_span`` is the half-open token range of the
    current sentence in ``tgt_ids``, including the trailing <E>. Windows
    whose sentences have the same lengths share one ``src_seg``,
    ``tgt_seg`` and ``current_span`` object (``_layout``).
    """

    doc_id: str
    j: int
    size: int
    src_ids: tuple[int, ...]
    tgt_ids: tuple[int, ...]
    src_seg: tuple[int, ...]
    tgt_seg: tuple[int, ...]
    current_span: tuple[int, int]

    @property
    def current_index(self) -> int:
        return self.size - 1

    def sentence_lengths(self) -> list[int]:
        """Source token count per included sentence, separators and <E> excluded."""
        counts = [0] * self.size
        for tok, k in zip(self.src_ids, self.src_seg):
            if tok not in (SEP_ID, EOS_ID):
                counts[k] += 1
        return counts


@functools.lru_cache(maxsize=4096)  # seed-7 windows need 54 entries at K=2, 1,432 at K=4
def _layout(lengths: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, int]]:
    """The segment tuple and the current span of a window side whose
    sentences have ``lengths`` tokens: each sentence's tokens, and the <S>
    or <E> that ends it, carry the sentence's index."""
    seg = tuple(k for k, n in enumerate(lengths) for _ in range(n + 1))
    return seg, (len(seg) - lengths[-1] - 1, len(seg))


def _window_ids(sentences: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Encoded sentences, each followed by <S>, the last by <E> instead."""
    ids: list[int] = []
    for sent in sentences:
        ids.extend(sent)
        ids.append(SEP_ID)
    ids[-1] = EOS_ID
    return tuple(ids)


def _window(src: Sequence[Sequence[int]], tgt: Sequence[Sequence[int]],
            doc_id: str, j: int) -> Window:
    """The window over the aligned encoded sentences ``src`` and ``tgt``."""
    src_seg, _ = _layout(tuple(map(len, src)))
    tgt_seg, current_span = _layout(tuple(map(len, tgt)))
    return Window(doc_id=doc_id, j=j, size=len(src), src_ids=_window_ids(src),
                  tgt_ids=_window_ids(tgt), src_seg=src_seg, tgt_seg=tgt_seg,
                  current_span=current_span)


def _check_aligned(src_sentences: Sequence, tgt_sentences: Sequence) -> None:
    if len(src_sentences) != len(tgt_sentences) or not src_sentences:
        raise CorpusError("source and target sides need the same, nonzero sentence count")


def _check_window_size(k: int) -> None:
    if k < 1:
        raise CorpusError(f"window size must be >= 1, got {k}")


def _window_rows(j: int, k: int) -> slice:
    """The sentences of the size-``k`` window ending at sentence ``j``:
    sentence j and up to k-1 sentences before it."""
    return slice(max(0, j - k + 1), j + 1)


def window_pairs(doc: Document, j: int, k: int):
    """The (source, target) pairs of the size-``k`` window ending at sentence ``j``."""
    return doc.sentences[_window_rows(j, k)]


def make_windows(doc: Document, k: int, vocab: Vocab) -> list[Window]:
    """One window per sentence j, holding min(k-1, j) preceding context sentences."""
    _check_window_size(k)
    # each sentence is encoded once, for all the windows that hold it
    src = [vocab.encode(s) for s, _ in doc.sentences]
    tgt = [vocab.encode(t) for _, t in doc.sentences]
    windows = []
    for j in range(len(doc.sentences)):
        rows = _window_rows(j, k)
        windows.append(_window(src[rows], tgt[rows], doc.doc_id, j))
    return windows


# ---------------------------------------------------------------------------
# segment-shift values


def compute_shift(strategy: str, lengths: Sequence[int] | None = None,
                  window: Window | None = None) -> int:
    """Resolve a shift value: "fixed:<n>", "avg-corpus" or "avg-sequence".

    avg-corpus is the rounded mean of ``lengths``, the token counts of the
    corpus's source sentences; avg-sequence the rounded mean source-sentence
    length within the given window. Separators and <E> never count.
    """
    if strategy.startswith("fixed:"):
        value = int(strategy.split(":", 1)[1])
        if value < 0:
            raise CorpusError(f"fixed shift must be nonnegative, got {value}")
        return value
    if strategy == "avg-corpus":
        if not lengths:
            raise CorpusError("avg-corpus shift needs a nonempty corpus")
        return int(round(sum(lengths) / len(lengths)))
    if strategy == "avg-sequence":
        if window is None:
            raise CorpusError("avg-sequence shift needs a window")
        lengths = window.sentence_lengths()
        return int(round(sum(lengths) / len(lengths)))
    raise CorpusError(f"unknown shift strategy {strategy!r}")


# ---------------------------------------------------------------------------
# corpus files: "source ||| target" lines, blank line between documents


def write_corpus(path, docs: Iterable[Document]) -> None:
    text = "\n".join("".join(f"{' '.join(src)} ||| {' '.join(tgt)}\n"
                             for src, tgt in doc.sentences) for doc in docs)
    write_atomic(path, text.encode("utf-8"))


def _invalid_utf8(path) -> CorpusError:
    """The error naming the first line of ``path`` that is not valid UTF-8;
    looked for only once decoding the whole file has failed."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return CorpusError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason})")
    return CorpusError(f"{path}: invalid UTF-8")


def document_id(index: int) -> str:
    """The id of a file's document ``index``, counted from 0 in file order."""
    return f"d{index:05d}"


def _document_pairs(path) -> Iterator[tuple[int, list[tuple[list[str], list[str]]]]]:
    """The line of each document's first pair and its (source, target)
    token lists, document by document in file order. A line that is not
    'source ||| target', invalid UTF-8 and a file with no document raise
    ``CorpusError`` naming the file, and the line where there is one."""
    pairs: list[tuple[list[str], list[str]]] = []
    first = 0  # the line of pairs[0]: a document's lines are consecutive
    n_docs = 0
    try:
        with open(path, encoding="utf-8") as fh:
            # the blank line after the file ends its last document
            for lineno, line in enumerate(itertools.chain(fh, [""]), 1):
                line = line.rstrip("\n")
                if not line.strip():
                    if pairs:
                        yield first, pairs
                        pairs, n_docs = [], n_docs + 1
                    continue
                if " ||| " not in line:
                    raise CorpusError(f"{path}:{lineno}: expected 'source ||| target'")
                if not pairs:
                    first = lineno
                src, tgt = line.split(" ||| ", 1)
                pairs.append((tokenize(src), tokenize(tgt)))
    except UnicodeDecodeError:
        raise _invalid_utf8(path) from None
    if not n_docs:
        raise CorpusError(f"{path}: empty corpus")


def _reject_reserved_lines(path, d: int, first: int, pairs) -> None:
    """Raise ``CorpusError`` naming the line and document ``d`` if one of its
    ``pairs``, the first of them on line ``first`` of ``path``, holds a reserved token."""
    for at, pair in enumerate(pairs, first):
        if not all(map(_RESERVED_SET.isdisjoint, pair)):
            _reject_reserved(f"{path}:{at}: document {document_id(d)!r}", pair)


def _checked_pairs(path) -> Iterator[list[tuple[list[str], list[str]]]]:
    """The (source, target) token lists of each document of a corpus file,
    which raise every error ``read_corpus`` raises, with its message."""
    for d, (first, pairs) in enumerate(_document_pairs(path)):
        _reject_reserved_lines(path, d, first, pairs)
        yield pairs


def read_corpus(path) -> list[Document]:
    """The documents of a corpus file, with ``document_id`` ids."""
    docs: list[Document] = []
    for d, (first, pairs) in enumerate(_document_pairs(path)):
        try:
            docs.append(Document.from_pairs(document_id(d), pairs))
        except CorpusError:  # a reserved token: name the line that holds it
            _reject_reserved_lines(path, d, first, pairs)
            raise
    return docs


def _offsets(counts: array) -> np.ndarray:
    """Where each of the runs of ``counts`` items starts, and where the last ends."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(counts, dtype=np.int32), out=out[1:])
    return out


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``starts[0]`` to ``stops[0] - 1``, then ``starts[1]`` to ``stops[1] - 1``, and so on."""
    counts = stops - starts
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _cut(items: list, counts: list[int]) -> list[list]:
    """``items`` cut into consecutive runs of ``counts[0]``, ``counts[1]``, ... items."""
    ends = list(itertools.accumulate(counts))
    return [items[a:b] for a, b in zip([0, *ends], ends)]


def _sentences(ids: np.ndarray, offsets: np.ndarray, first: np.ndarray,
               stop: np.ndarray) -> list[list[list[int]]]:
    """For each i, sentences ``first[i]`` to ``stop[i] - 1`` of ``ids`` (cut
    at ``offsets``) as lists of ints, gathered with one index."""
    rows = _ranges(first, stop)
    lo, hi = offsets[rows], offsets[rows + 1]
    return _cut(_cut(ids[_ranges(lo, hi)].tolist(), (hi - lo).tolist()),
                (stop - first).tolist())


@dataclass(frozen=True)
class EncodedCorpus:
    """A corpus file's sentences as int32 token ids, with no ``Document``.

    Sentence s is ``src[src_offsets[s]:src_offsets[s + 1]]`` on the source
    side, likewise on the target side, and document d holds sentences
    ``doc_starts[d]`` to ``doc_starts[d + 1] - 1``. Window i of size k is the
    window ``make_windows`` makes for sentence i at k; the windows of a
    corpus are numbered through all its documents, in file order.
    """

    src: np.ndarray
    tgt: np.ndarray
    src_offsets: np.ndarray
    tgt_offsets: np.ndarray
    doc_starts: np.ndarray

    @staticmethod
    def read(path, vocab: Vocab) -> "EncodedCorpus":
        """The sentences of a corpus file encoded by ``vocab``; a file that
        ``read_corpus`` rejects raises its error."""
        src, tgt, src_lengths, tgt_lengths, doc_sizes = (array("i") for _ in range(5))
        for pairs in _checked_pairs(path):
            doc_sizes.append(len(pairs))
            for s, t in pairs:
                src.extend(vocab.encode(s))
                tgt.extend(vocab.encode(t))
                src_lengths.append(len(s))
                tgt_lengths.append(len(t))
        return EncodedCorpus(np.frombuffer(src, dtype=np.int32),
                             np.frombuffer(tgt, dtype=np.int32),
                             _offsets(src_lengths), _offsets(tgt_lengths), _offsets(doc_sizes))

    def __len__(self) -> int:
        return len(self.src_offsets) - 1

    def source_lengths(self) -> list[int]:
        """The token count of each source sentence."""
        return np.diff(self.src_offsets).tolist()

    def _window_rows(self, last: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The document and the first sentence of each size-``k`` window
        ending at sentence ``last``, as ``_window_rows`` gives them."""
        _check_window_size(k)
        docs = np.searchsorted(self.doc_starts, last, side="right") - 1
        return docs, np.maximum(last - k + 1, self.doc_starts[docs])

    def target_lengths(self, k: int) -> list[int]:
        """``len(tgt_ids)`` of each window of size ``k``: its sentences'
        tokens, and the <S> or <E> that ends each sentence."""
        last = np.arange(len(self))
        _, first = self._window_rows(last, k)
        return (self.tgt_offsets[last + 1] - self.tgt_offsets[first]
                + (last - first + 1)).tolist()

    def windows(self, indices: Sequence[int], k: int) -> list[Window]:
        """Windows ``indices`` of size ``k``, built by ``_window`` as in ``make_windows``."""
        last = np.asarray(indices, dtype=np.int64)
        docs, first = self._window_rows(last, k)
        src = _sentences(self.src, self.src_offsets, first, last + 1)
        tgt = _sentences(self.tgt, self.tgt_offsets, first, last + 1)
        j = (last - self.doc_starts[docs]).tolist()
        return [_window(s, t, document_id(d), at)
                for s, t, d, at in zip(src, tgt, docs.tolist(), j)]


# ---------------------------------------------------------------------------
# contrastive examples


@dataclass(frozen=True)
class ContrastiveExample:
    """A source window paired with a reference target window and distractors.

    Candidate 0 is the reference; candidates differ from it only within
    the current-sentence span. ``distance`` is the sentence distance from
    the ambiguous item to its antecedent, 0 meaning intra-sentential. No
    sentence may hold a reserved token, as in a ``Document``; whether the
    windows are their document's sentences is checked where the documents
    are at hand (``evaluation.check_example_windows``).
    """

    example_id: str
    doc_id: str
    j: int
    src_sentences: tuple[tuple[str, ...], ...]
    candidates: tuple[tuple[tuple[str, ...], ...], ...]
    phenomenon: str
    distance: int

    def __post_init__(self):
        if len(self.candidates) < 2:
            raise CorpusError(f"example {self.example_id!r} needs >= 2 candidates")
        ref = self.candidates[0]
        for cand in self.candidates[1:]:
            if len(cand) != len(ref) or cand[:-1] != ref[:-1]:
                raise CorpusError(
                    f"example {self.example_id!r}: candidates differ outside the current sentence")
        _reject_reserved(f"example {self.example_id!r}",
                         itertools.chain(self.src_sentences, *self.candidates))

    def candidate_windows(self, vocab: Vocab) -> list[Window]:
        """One window per candidate: the example's source sentences aligned
        with the candidate's target sentences. The source and the shared
        context are encoded once for all of them."""
        _check_aligned(self.src_sentences, self.candidates[0])
        src = [vocab.encode(s) for s in self.src_sentences]
        context = [vocab.encode(t) for t in self.candidates[0][:-1]]
        return [_window(src, context + [vocab.encode(cand[-1])], self.doc_id, self.j)
                for cand in self.candidates]


def _window_text(sentences: Sequence[Sequence[str]]) -> str:
    return f" {SEP} ".join(" ".join(sent) for sent in sentences)


def _parse_window_text(text: str) -> tuple[tuple[str, ...], ...]:
    sentences: list[tuple[str, ...]] = []
    current: list[str] = []
    for tok in tokenize(text):
        if tok == SEP:
            sentences.append(tuple(current))
            current = []
        else:
            current.append(tok)
    sentences.append(tuple(current))
    return tuple(sentences)


def write_contrastive(path, examples: Iterable[ContrastiveExample]) -> None:
    """One canonical JSON object per line."""
    lines = (json.dumps({
        "id": ex.example_id,
        "doc": ex.doc_id,
        "j": ex.j,
        "src": _window_text(ex.src_sentences),
        "candidates": [_window_text(c) for c in ex.candidates],
        "phenomenon": ex.phenomenon,
        "distance": ex.distance,
    }, sort_keys=True, separators=(",", ":")) + "\n" for ex in examples)
    write_atomic(path, "".join(lines).encode("utf-8"))


_TEXT_KEYS = ("id", "doc", "src", "phenomenon")
_COUNT_KEYS = ("j", "distance")


def _schema_problem(rec) -> str | None:
    """What makes ``rec`` not a contrastive record, or None: it needs the
    text keys as strings, ``j`` and ``distance`` as integers >= 0 (not
    bools), and exactly two candidate strings."""
    if not isinstance(rec, dict):
        return "expected a JSON object"
    missing = [key for key in (*_TEXT_KEYS, *_COUNT_KEYS, "candidates") if key not in rec]
    if missing:
        return f"missing key {', '.join(map(repr, missing))}"
    for key in _TEXT_KEYS:
        if not isinstance(rec[key], str):
            return f"{key!r} must be a string, got {rec[key]!r}"
    for key in _COUNT_KEYS:
        if type(rec[key]) is not int or rec[key] < 0:
            return f"{key!r} must be an integer >= 0, got {rec[key]!r}"
    candidates = rec["candidates"]
    if not (isinstance(candidates, list) and len(candidates) == 2):
        return f"expected exactly 2 candidates, got {candidates!r}"
    if not all(isinstance(c, str) for c in candidates):
        return f"candidates must be strings, got {candidates!r}"
    return None


def read_contrastive(path) -> list[ContrastiveExample]:
    """The examples of a contrastive JSONL file. A line that is not a valid
    record raises ``CorpusError`` naming ``path:line``."""
    examples = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    problem = _schema_problem(rec)
                    if problem:
                        raise CorpusError(problem)
                    examples.append(ContrastiveExample(
                        example_id=rec["id"], doc_id=rec["doc"], j=rec["j"],
                        src_sentences=_parse_window_text(rec["src"]),
                        candidates=tuple(_parse_window_text(c) for c in rec["candidates"]),
                        phenomenon=rec["phenomenon"], distance=rec["distance"]))
                except (CorpusError, json.JSONDecodeError) as exc:
                    raise CorpusError(f"{path}:{lineno}: {exc}") from None
    except UnicodeDecodeError:
        raise _invalid_utf8(path) from None
    return examples


def rebuild_examples(examples: Iterable[ContrastiveExample],
                     docs: dict[str, Document], k: int) -> list[ContrastiveExample]:
    """Re-window contrastive examples at a different window size.

    The substitution that turns the reference current sentence into each
    distractor is re-applied to the document's own sentence j, so candidate
    minimal pairs survive the re-windowing.
    """
    rebuilt = []
    for ex in examples:
        chunk = window_pairs(docs[ex.doc_id], ex.j, k)
        src_sents = tuple(s for s, _ in chunk)
        ref_tgt = tuple(t for _, t in chunk)
        old_ref_cur = ex.candidates[0][-1]
        candidates = [ref_tgt]
        for cand in ex.candidates[1:]:
            cur = list(ref_tgt[-1])
            for i, (a, b) in enumerate(zip(old_ref_cur, cand[-1])):
                if a != b:
                    cur[i] = b
            candidates.append(ref_tgt[:-1] + (tuple(cur),))
        rebuilt.append(ContrastiveExample(
            example_id=ex.example_id, doc_id=ex.doc_id, j=ex.j,
            src_sentences=src_sents, candidates=tuple(candidates),
            phenomenon=ex.phenomenon, distance=ex.distance))
    return rebuilt


def split_documents(docs: Sequence[Document], ratios: tuple[int, int, int]) -> tuple[list[Document], list[Document], list[Document]]:
    """Deterministic train/dev/test split by document position."""
    if min(ratios) < 0 or sum(ratios) <= 0:
        raise CorpusError(f"bad split ratios {ratios}")
    n = len(docs)
    n_train = n * ratios[0] // sum(ratios)
    n_dev = n * ratios[1] // sum(ratios)
    train = list(docs[:n_train])
    dev = list(docs[n_train:n_train + n_dev])
    test = list(docs[n_train + n_dev:])
    return train, dev, test
