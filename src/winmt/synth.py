"""Deterministic synthetic discourse corpus.

Source sentences are filler tokens plus nouns from two disjoint classes.
Some sentences carry an ambiguous token whose target realization must
match the class of the most recent noun; with probability
``inter_sentential_rate`` that noun sits in an earlier sentence, so the
ambiguity is only resolvable with context. Targets mirror sources
token-for-token except for the realization. Every ambiguous sentence
yields a contrastive example pairing the reference window with one
distractor that flips the realization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .corpus import ContrastiveExample, CorpusError, Document, document_id, window_pairs
from .rng import stream

AMB = "amb"
REALIZATIONS = ("amb_a", "amb_b")
PHENOMENON = "noun-class-agreement"

DEFAULT_DOCS = 5000
DEFAULT_SENTENCES = 4
DEFAULT_VOCAB = 64
DEFAULT_RATE = 0.7
MIN_FILLERS, MAX_FILLERS = 3, 7  # filler tokens per sentence, inclusive


@dataclass(frozen=True)
class Inventory:
    fillers: tuple[str, ...]
    nouns: tuple[tuple[str, ...], tuple[str, ...]]  # class 0, class 1


def token_inventory(vocab_size: int) -> Inventory:
    """Partition the token budget: 4 reserved ids, 3 task tokens, nouns, fillers."""
    if vocab_size < 20:
        raise CorpusError(f"vocab size must be >= 20, got {vocab_size}")
    budget = vocab_size - 4 - 3
    per_class = max(2, budget // 6)
    n_fillers = budget - 2 * per_class
    return Inventory(
        fillers=tuple(f"w{i:02d}" for i in range(n_fillers)),
        nouns=(tuple(f"na{i}" for i in range(per_class)),
               tuple(f"nb{i}" for i in range(per_class))),
    )


def gen_synthetic(seed: int,
                  n_docs: int = DEFAULT_DOCS,
                  sentences_per_doc: int = DEFAULT_SENTENCES,
                  vocab_size: int = DEFAULT_VOCAB,
                  inter_sentential_rate: float = DEFAULT_RATE,
                  window_size: int = 2,
                  amb_rate: float = 0.4,
                  noun_rate: float = 0.55) -> tuple[list[Document], list[ContrastiveExample]]:
    """Generate (documents, contrastive examples); byte-identical per seed.

    Contrastive examples are windowed at ``window_size``; they can be
    re-windowed later via ``corpus.rebuild_examples``. Each document is
    drawn from its own counter-derived stream, so output does not depend
    on generation order.
    """
    for name, rate in (("inter-sentential", inter_sentential_rate), ("ambiguity", amb_rate),
                       ("noun", noun_rate)):
        if not 0.0 <= rate <= 1.0:  # NaN fails too
            raise CorpusError(f"{name} rate must be in [0, 1], got {rate}")
    if n_docs < 1:
        raise CorpusError(f"need >= 1 document, got {n_docs}")
    if window_size < 1:
        raise CorpusError(f"window size must be >= 1, got {window_size}")
    if sentences_per_doc < 2:
        raise CorpusError(f"need >= 2 sentences per document, got {sentences_per_doc}")
    inv = token_inventory(vocab_size)

    docs: list[Document] = []
    examples: list[ContrastiveExample] = []
    for d in range(n_docs):
        rng = stream(seed, "synth-doc", d)
        doc_id = document_id(d)
        pairs: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
        amb_sites: list[tuple[int, int]] = []  # (sentence index, antecedent distance)
        last_noun: tuple[int, int] | None = None  # (sentence index, class)

        for j in range(sentences_per_doc):
            n_fill = int(rng.integers(MIN_FILLERS, MAX_FILLERS + 1))
            toks = [inv.fillers[i] for i in rng.integers(0, len(inv.fillers), n_fill)]

            has_amb = j > 0 and rng.random() < amb_rate
            intra = has_amb and rng.random() >= inter_sentential_rate
            # sentence 0 always bears a noun so inter-sentential ambiguities
            # are guaranteed an antecedent
            has_noun = intra or j == 0 or (not has_amb and rng.random() < noun_rate)

            if has_noun:
                cls = int(rng.integers(0, 2))
                noun = inv.nouns[cls][int(rng.integers(0, len(inv.nouns[cls])))]
                pos = int(rng.integers(0, len(toks) + 1))
                toks.insert(pos, noun)
                last_noun = (j, cls)
            if has_amb:
                if intra:
                    lo = toks.index(noun) + 1
                else:
                    lo = 0
                toks.insert(int(rng.integers(lo, len(toks) + 1)), AMB)
                amb_sites.append((j, 0 if intra else j - last_noun[0]))

            src = tuple(toks)
            tgt = tuple(REALIZATIONS[last_noun[1]] if t == AMB else t for t in toks)
            pairs.append((src, tgt))
            # the class used for this sentence's ambiguity is the noun state
            # at sentence end, which equals the state at the AMB position
            # because inter-sentential sentences carry no noun of their own

        doc = Document(doc_id, tuple(pairs))
        docs.append(doc)
        for j, dist in amb_sites:
            examples.append(_make_example(doc, j, dist, window_size))
    return docs, examples


def _flip(sentence: tuple[str, ...]) -> tuple[str, ...]:
    swap = {REALIZATIONS[0]: REALIZATIONS[1], REALIZATIONS[1]: REALIZATIONS[0]}
    return tuple(swap.get(t, t) for t in sentence)


def _make_example(doc: Document, j: int, distance: int, k: int) -> ContrastiveExample:
    chunk = window_pairs(doc, j, k)
    ref = tuple(t for _, t in chunk)
    distractor = ref[:-1] + (_flip(ref[-1]),)
    return ContrastiveExample(
        example_id=f"{doc.doc_id}:{j}",
        doc_id=doc.doc_id,
        j=j,
        src_sentences=tuple(s for s, _ in chunk),
        candidates=(ref, distractor),
        phenomenon=PHENOMENON,
        distance=distance,
    )


def split_examples(docs: Sequence[Document],
                   examples: Iterable[ContrastiveExample]) -> list[ContrastiveExample]:
    """The examples of ``docs``, one split of the generated documents, with
    the ids that ``corpus.read_corpus`` gives ``docs`` written to one file."""
    ids = {doc.doc_id: document_id(i) for i, doc in enumerate(docs)}
    return [replace(ex, doc_id=ids[ex.doc_id], example_id=f"{ids[ex.doc_id]}:{ex.j}")
            for ex in examples if ex.doc_id in ids]
